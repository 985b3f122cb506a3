"""Command line interface: dataset synthesis, training, generation,
evaluation, likelihood reporting, ordering ablation and DOT export.

Every run is fully determined by its flags and seed; logs are the only
outputs carrying timestamps (in a dedicated field)."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig
from .datasets import (GENERATORS, Corpus, export_dot, load_corpus,
                       save_corpus, split)
from .generate import GenerationConfig, generate_batch
from .graphs import GraphError
from .likelihood import (EXACT_MAX_NODES, exact_marginal, expected_nll,
                         is_marginal_likelihood)
from .metrics import (cross_cluster_count, mmd_report, spectral_bipartition,
                      uniqueness_novelty)
from .model import ModelBundle
from .training import TrainingDiverged, fit


class CliError(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ConfigError, GraphError, TrainingDiverged,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agd",
                                     description="autoregressive graph diffusion")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("make-dataset", help="synthesize a graph corpus")
    p.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample graphs from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--size-from", default=None, metavar="CORPUS")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--traces-out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="MMD report between two corpora")
    p.add_argument("--generated", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--descriptors-out", default=None, metavar="DIR",
                   help="also write per-graph descriptor CSVs for plotting")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("nll", help="likelihood estimates over a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--exact-max", type=int, default=0,
                   help="also run the exact oracle for graphs up to this size "
                        f"(at most {EXACT_MAX_NODES})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_nll)

    p = sub.add_parser("ablate-ordering",
                       help="generation-order analysis vs a uniform baseline")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--baseline-checkpoint", default=None,
                   help="optional second model (e.g. trained with uniform orders)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("export-dot", help="write GraphViz files for a corpus")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export_dot)
    return parser


def _write_json(path, obj) -> None:
    text = json.dumps(obj, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_make_dataset(args) -> int:
    if args.count < 0:
        raise CliError(f"--count must be >= 0, got {args.count}")
    corpus = GENERATORS[args.kind](np.random.default_rng(args.seed), args.count)
    corpus.meta["seed"] = args.seed
    save_corpus(corpus, args.out)
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    if not cfg.paths["corpus"]:
        raise ConfigError("training needs 'corpus' in [paths]")
    denoiser_config = cfg.denoiser_config()
    corpus = load_corpus(cfg.paths["corpus"])
    _check_vocabulary(corpus, cfg.paths["corpus"], denoiser_config)
    if cfg.paths["val_corpus"]:
        val_corpus = load_corpus(cfg.paths["val_corpus"])
        _check_vocabulary(val_corpus, cfg.paths["val_corpus"], denoiser_config)
        train, val = corpus.graphs, val_corpus.graphs
    else:
        train_c, val_c, _ = split(corpus, cfg.seed, cfg.train["val_fraction"])
        train, val = train_c.graphs, val_c.graphs
    model = ModelBundle.init(cfg.ordering_config(), denoiser_config,
                             np.random.default_rng(cfg.seed),
                             lr_denoiser=cfg.train["lr_denoiser"],
                             lr_ordering=cfg.train["lr_ordering"])
    ckpt_dir = cfg.paths["checkpoint_dir"] or "."
    os.makedirs(ckpt_dir, exist_ok=True)
    model, report = fit(train, val, model, cfg.train_config(),
                        checkpoint_dir=ckpt_dir,
                        log_path=cfg.paths["log"] or None)
    if cfg.paths["report"]:
        _write_json(cfg.paths["report"], {
            "epoch_losses": report.epoch_losses,
            "epoch_rewards": report.epoch_rewards,
            "selected_checkpoint": report.selected_checkpoint,
        })
    print(report.selected_checkpoint or "")
    return 0


def _check_vocabulary(corpus: Corpus, path, config) -> None:
    """Reject a corpus whose node or edge types the model cannot represent."""
    if (corpus.num_node_types > config.num_node_types
            or corpus.num_edge_types > config.num_edge_types):
        raise CliError(f"{path} has {corpus.num_node_types} node types and "
                       f"{corpus.num_edge_types} edge types; the model has "
                       f"{config.num_node_types} and {config.num_edge_types}")


def _generation_config(args):
    if (args.n is None) == (args.size_from is None):
        raise CliError("give exactly one of --n or --size-from")
    sizes = None
    if args.size_from is not None:
        sizes = tuple(load_corpus(args.size_from).sizes())
        if not sizes:
            raise CliError(f"no graphs in {args.size_from}")
    return GenerationConfig(count=args.count, n=args.n,
                            sizes=sizes, max_degree=args.max_degree,
                            seed=args.seed)


def cmd_generate(args) -> int:
    bundle = ModelBundle.load(args.checkpoint)
    traces = generate_batch(bundle.denoiser, _generation_config(args))
    c = bundle.denoiser.config
    corpus = Corpus([t.graph for t in traces], c.num_node_types,
                    c.num_edge_types, {"generator": "model", "seed": args.seed})
    save_corpus(corpus, args.out)
    if args.traces_out:
        with open(args.traces_out, "w") as fh:
            for t in traces:
                fh.write(json.dumps({
                    "order": t.order(),
                    "steps": [{"slot": s.slot, "node_type": s.node_type,
                               "edges": [list(e) for e in s.edges],
                               "dropped": list(s.dropped)} for s in t.steps],
                }, sort_keys=True) + "\n")
    return 0


def cmd_evaluate(args) -> int:
    from .metrics import descriptors_csv

    if not (np.isfinite(args.sigma) and args.sigma > 0):
        raise CliError(f"--sigma must be finite and > 0, got {args.sigma}")
    generated = load_corpus(args.generated)
    reference = load_corpus(args.reference)
    if not generated.graphs or not reference.graphs:
        raise CliError("both corpora must be non-empty")
    report = mmd_report(generated.graphs, reference.graphs, sigma=args.sigma)
    unique, novel = uniqueness_novelty(generated.graphs, reference.graphs)
    _write_json(args.out, {**report.to_dict(),
                           "unique": unique, "novel": novel})
    if args.descriptors_out:
        os.makedirs(args.descriptors_out, exist_ok=True)
        for kind in ("degree", "clustering", "orbit"):
            path = os.path.join(args.descriptors_out, f"{kind}.csv")
            with open(path, "w") as fh:
                fh.write(descriptors_csv(generated.graphs, kind))
    return 0


def cmd_nll(args) -> int:
    if args.samples < 1:
        raise CliError(f"--samples must be >= 1, got {args.samples}")
    if not 0 <= args.exact_max <= EXACT_MAX_NODES:
        raise CliError(f"--exact-max must be in 0..{EXACT_MAX_NODES}, got {args.exact_max}")
    bundle = ModelBundle.load(args.checkpoint)
    corpus = load_corpus(args.corpus)
    _check_vocabulary(corpus, args.corpus, bundle.denoiser.config)
    rng = np.random.default_rng(args.seed)
    records = []
    for idx, g in enumerate(corpus.graphs):
        est = expected_nll(bundle, g, args.samples, rng)
        is_est = is_marginal_likelihood(bundle, g, args.samples, rng)
        rec = {"graph": idx, "n": g.n,
               "expected_nll": est.nats, "expected_nll_se": est.std_error,
               "is_marginal_nll": is_est.nats,
               "is_marginal_se": is_est.std_error}
        if args.exact_max and g.n <= args.exact_max:
            rec["exact_nll"] = exact_marginal(bundle, g, args.exact_max).nats
        records.append(rec)
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _order_stats(traces, rng):
    """Mean cross-cluster counts: the recorded generation orders vs uniform
    random orders over the same generated graphs."""
    learned, uniform = [], []
    for t in traces:
        labels, _ = spectral_bipartition(t.graph)
        learned.append(cross_cluster_count(t, labels))
        uniform.append(cross_cluster_count(
            [int(v) for v in rng.permutation(t.graph.n)], labels))
    return float(np.mean(learned)), float(np.mean(uniform))


def _ablation_stats(checkpoint, corpus: Corpus, args):
    """Generate from one checkpoint at the corpus sizes; returns its learned
    order stats and MMD, and the uniform-order cross-cluster mean."""
    bundle = ModelBundle.load(checkpoint)
    traces = generate_batch(bundle.denoiser,
                            GenerationConfig(count=args.count, sizes=tuple(corpus.sizes()),
                                             seed=args.seed))
    learned, uniform = _order_stats(traces, np.random.default_rng(args.seed + 1))
    return ({"cross_cluster_mean": learned,
             **mmd_report([t.graph for t in traces], corpus.graphs).to_dict()},
            uniform)


def cmd_ablate(args) -> int:
    if args.count < 1:
        raise CliError(f"--count must be >= 1, got {args.count}")
    corpus = load_corpus(args.corpus)
    if not corpus.graphs:
        raise CliError(f"no graphs in {args.corpus}")
    learned, uniform = _ablation_stats(args.checkpoint, corpus, args)
    report = {"count": args.count, "learned": learned,
              "uniform_order_baseline": {"cross_cluster_mean": uniform}}
    if args.baseline_checkpoint:
        report["baseline_checkpoint"], _ = _ablation_stats(args.baseline_checkpoint,
                                                           corpus, args)
    _write_json(args.out, report)
    return 0


def cmd_export_dot(args) -> int:
    corpus = load_corpus(args.infile)
    os.makedirs(args.out, exist_ok=True)
    for idx, g in enumerate(corpus.graphs):
        with open(os.path.join(args.out, f"graph_{idx:04d}.dot"), "w") as fh:
            fh.write(export_dot(g, name=f"g{idx}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
