"""The benchmark's workloads: inputs made from a seed, a timed set-up, one
closed-loop operation, and the output checks applied to its result.

Every operation of a run repeats the same job on the same inputs, so its
outputs, and the digest over them, must repeat exactly, and its phases do
the same work each time.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

import agd.likelihood as likelihood
import agd.metrics as metrics
import agd.training as training
from agd.datasets import Corpus, gen_community_small, gen_typed_toy, load_corpus, save_corpus
from agd.denoiser import DenoiserConfig
from agd.generate import GenerationConfig
from agd.model import ModelBundle
from agd.ordering import OrderingConfig
from agd.training import TrainConfig

from checks import (all_finite, equals_replay, exact_bounds_expected,
                    mmd_self_zero, respects_max_degree, size_from_pool)

# Instrumented functions are called through their modules, so that a tracer
# that patches the module attribute sees the call. The package exports a
# function named `generate`, which hides the module of that name.
generation = importlib.import_module("agd.generate")


@dataclass
class OpResult:
    phases: dict[str, tuple[int, float]]   # phase -> (graphs, wall seconds)
    digest: str                            # sha256 over every output
    outputs: dict                          # what the output checks read
    values: dict[str, tuple[float, str]] = field(default_factory=dict)  # name -> (value, unit)


def community_graphs(rng, shapes):
    """community-small graphs, one of each requested (nodes, edges) shape, in
    order. Drawing until the edge count matches keeps the work of every seed
    alike: the ordering network's cost grows with the edges."""
    graphs = []
    for n, m in shapes:
        g = gen_community_small(rng, 1, (n, n)).graphs[0]
        while g.m != m:
            g = gen_community_small(rng, 1, (n, n)).graphs[0]
        graphs.append(g)
    return graphs


def typed_toy_graphs(rng, sizes):
    """typed-toy graphs drawn in order until every requested size is filled."""
    wanted = Counter(sizes)
    drawn: dict[int, list] = {n: [] for n in wanted}
    while any(len(drawn[n]) < k for n, k in wanted.items()):
        g = gen_typed_toy(rng, 1).graphs[0]
        if len(drawn.get(g.n, ())) < wanted[g.n]:
            drawn[g.n].append(g)
    return [drawn[n].pop() for n in sizes]


def _sha(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def _file_sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _graph_key(g):
    return (g.node_types, tuple(g.edge_list()))


@dataclass
class TrainWorkload:
    """`fit` on a seeded corpus with a checkpoint dir and a log path, as
    `agd train` runs it. Each operation trains a freshly initialized model."""

    # the figure printed for each phase: (name, unit), a rate unless unit is "s"
    FIGURES: ClassVar = {"fit": ("fit_graphs_per_s", "graphs/s")}

    seed: int
    workdir: str                 # inputs, checkpoints and the log go here
    make_graphs: object          # (rng, shapes) -> list of graphs
    train_shapes: tuple
    val_shapes: tuple
    ordering: OrderingConfig
    denoiser: DenoiserConfig
    train: TrainConfig

    def prepare(self) -> None:
        """Write the seeded corpora; not timed."""
        rng = np.random.default_rng(self.seed)
        types = (self.denoiser.num_node_types, self.denoiser.num_edge_types)
        save_corpus(Corpus(self.make_graphs(rng, self.train_shapes), *types),
                    os.path.join(self.workdir, "train.jsonl"))
        save_corpus(Corpus(self.make_graphs(rng, self.val_shapes), *types),
                    os.path.join(self.workdir, "val.jsonl"))
        os.makedirs(os.path.join(self.workdir, "ckpt"), exist_ok=True)

    def _init_model(self) -> ModelBundle:
        return ModelBundle.init(self.ordering, self.denoiser,
                                np.random.default_rng(self.seed),
                                lr_denoiser=self.train.lr_denoiser,
                                lr_ordering=self.train.lr_ordering)

    def setup(self):
        train = load_corpus(os.path.join(self.workdir, "train.jsonl")).graphs
        val = load_corpus(os.path.join(self.workdir, "val.jsonl")).graphs
        self._init_model()
        return train, val

    def run_op(self, state) -> OpResult:
        train, val = state
        model = self._init_model()
        started = time.perf_counter()
        _, report = training.fit(train, val, model, self.train,
                                 checkpoint_dir=os.path.join(self.workdir, "ckpt"),
                                 log_path=os.path.join(self.workdir, "train.log"))
        seconds = time.perf_counter() - started
        ckpt = report.selected_checkpoint
        written = ckpt is not None and os.path.exists(ckpt)
        return OpResult(
            phases={"fit": (len(train) * self.train.epochs, seconds)},
            digest=_sha([report.epoch_losses, report.step_losses,
                         report.epoch_rewards, _file_sha(ckpt) if written else None]),
            outputs={"report": report, "checkpoint_written": written},
            values={"train_loss_last": (report.epoch_losses[-1], "nats")})

    def check(self, state, result: OpResult) -> list[tuple[str, bool]]:
        report = result.outputs["report"]
        losses = report.epoch_losses + report.step_losses + report.epoch_rewards
        return [("losses_finite", all_finite(losses)),
                ("checkpoint_written", result.outputs["checkpoint_written"])]


@dataclass
class InferWorkload:
    """The read path of a seeded, untrained paper-default GAT model: degree-
    capped generation, MMD and WL evaluation, NLL estimates, and the exact
    marginal on graphs small enough to enumerate."""

    FIGURES: ClassVar = {"generate": ("gen_graphs_per_s", "graphs/s"),
                         "evaluate": ("eval_s", "s"),
                         "nll": ("nll_graphs_per_s", "graphs/s"),
                         "exact": ("exact_graphs_per_s", "graphs/s")}

    seed: int
    workdir: str                       # the checkpoint and corpora go here
    ordering: OrderingConfig
    denoiser: DenoiserConfig           # one node type, two edge states
    reference_shapes: tuple            # the eval reference and the size pool
    gen_count: int
    max_degree: int
    nll_shapes: tuple
    nll_samples: int
    exact_shapes: tuple
    exact_check_samples: int

    def prepare(self) -> None:
        """Write the seeded checkpoint and corpora; not timed."""
        rng = np.random.default_rng(self.seed)
        model = ModelBundle.init(self.ordering, self.denoiser, rng)
        model.save(os.path.join(self.workdir, "model.json"))
        corpora = {"reference": self.reference_shapes, "nll": self.nll_shapes,
                   "exact": self.exact_shapes}
        for name, shapes in corpora.items():
            graphs = community_graphs(rng, shapes)
            if name == "reference":
                typical = statistics.median(max(g.degree(v) for v in range(g.n))
                                            for g in graphs)
                if self.max_degree >= typical:
                    raise ValueError(f"max_degree {self.max_degree} does not cap "
                                     f"the corpus's typical max degree {typical}")
            save_corpus(Corpus(graphs, 1, 2), os.path.join(self.workdir, f"{name}.jsonl"))

    def setup(self):
        model = ModelBundle.load(os.path.join(self.workdir, "model.json"))
        corpora = {name: load_corpus(os.path.join(self.workdir, f"{name}.jsonl")).graphs
                   for name in ("reference", "nll", "exact")}
        return model, corpora

    def run_op(self, state) -> OpResult:
        model, corpora = state
        reference, nll_graphs, exact_graphs = (corpora["reference"], corpora["nll"],
                                               corpora["exact"])
        sizes = tuple(g.n for g in reference)
        clock = time.perf_counter

        started = clock()
        traces = generation.generate_batch(model.denoiser, GenerationConfig(
            count=self.gen_count, sizes=sizes, max_degree=self.max_degree, seed=self.seed))
        gen_s = clock() - started
        generated = [t.graph for t in traces]

        started = clock()
        report = metrics.mmd_report(generated, reference)
        unique, novel = metrics.uniqueness_novelty(generated, reference)
        eval_s = clock() - started

        started = clock()
        nll = [(likelihood.expected_nll(model, g, self.nll_samples,
                                        np.random.default_rng([self.seed, i, 0])),
                likelihood.is_marginal_likelihood(model, g, self.nll_samples,
                                                  np.random.default_rng([self.seed, i, 1])))
               for i, g in enumerate(nll_graphs)]
        nll_s = clock() - started

        started = clock()
        exact = [likelihood.exact_marginal(model, g) for g in exact_graphs]
        exact_s = clock() - started

        estimates = [e for pair in nll for e in pair] + exact
        return OpResult(
            # evaluation scores the generated graphs again, so it adds none
            phases={"generate": (len(traces), gen_s), "evaluate": (0, eval_s),
                    "nll": (len(nll_graphs), nll_s), "exact": (len(exact_graphs), exact_s)},
            digest=_sha([[(_graph_key(t.graph), t.steps) for t in traces],
                         report.to_dict(), unique, novel,
                         [(e.nats, e.std_error) for e in estimates]]),
            outputs={"traces": traces, "report": report, "unique": unique,
                     "novel": novel, "estimates": estimates, "exact": exact})

    def check(self, state, result: OpResult) -> list[tuple[str, bool]]:
        """The output checks; they call the library too, so a traced run
        makes them after the tracer is restored."""
        model, corpora = state
        reference, exact_graphs = corpora["reference"], corpora["exact"]
        sizes = tuple(g.n for g in reference)
        out = result.outputs
        traces, report = out["traces"], out["report"]
        bounds = [likelihood.expected_nll(model, g, self.exact_check_samples,
                                          np.random.default_rng([self.seed, i, 2]))
                  for i, g in enumerate(exact_graphs)]
        return [("size_from_pool", all(size_from_pool(t, sizes) for t in traces)),
                ("respects_max_degree",
                 all(respects_max_degree(t, self.max_degree) for t in traces)),
                ("equals_replay", all(equals_replay(t) for t in traces)),
                ("mmd_finite", all_finite([report.degree, report.clustering,
                                           report.orbit, out["unique"], out["novel"]])),
                ("mmd_self_zero", mmd_self_zero(metrics.mmd_report(reference, reference))),
                ("nll_finite", all_finite([v for e in out["estimates"] + bounds
                                           for v in (e.nats, e.std_error)])),
                ("exact_bounds_expected",
                 all(exact_bounds_expected(x.nats, b.nats)
                     for x, b in zip(out["exact"], bounds)))]


# Community shapes are (nodes, edges), the edges near the generator's mean
# for that size; typed-toy graphs are chosen by size alone.
def train_paper(seed: int, workdir: str) -> TrainWorkload:
    return TrainWorkload(seed, workdir, community_graphs,
                         train_shapes=((12, 22), (16, 40)), val_shapes=((14, 30),),
                         ordering=OrderingConfig(1), denoiser=DenoiserConfig(1, 2),
                         train=TrainConfig(epochs=1, seed=seed))


def train_tiny_gru(seed: int, workdir: str) -> TrainWorkload:
    return TrainWorkload(
        seed, workdir, typed_toy_graphs, train_shapes=(3, 4, 5, 6, 6, 7, 8, 9),
        val_shapes=(5, 7),
        ordering=OrderingConfig(4, layers=2, heads=2, hidden=6, embed_dim=4, pe_dim=4),
        denoiser=DenoiserConfig(4, 4, aggregator="gru-gate", layers=2, hidden=14,
                                mlp_hidden=16, mixtures=2),
        train=TrainConfig(epochs=1, seed=seed))


def infer_paper(seed: int, workdir: str) -> InferWorkload:
    return InferWorkload(seed, workdir, OrderingConfig(1), DenoiserConfig(1, 2),
                         reference_shapes=((14, 30), (14, 30), (16, 40), (16, 40)),
                         gen_count=8, max_degree=4, nll_shapes=((12, 22), (4, 3)), nll_samples=4,
                         exact_shapes=((4, 3), (4, 3)), exact_check_samples=16)


WORKLOADS = {"train-paper": train_paper, "train-tiny-gru": train_tiny_gru,
             "infer-paper": infer_paper}
