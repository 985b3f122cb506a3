import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agd.autodiff import Parameter
from agd.cli import main
from agd.datasets import Corpus, load_corpus, save_corpus
from agd.denoiser import DenoiserConfig
from agd.graphs import new_graph
from agd.model import ModelBundle
from agd.optim import CheckpointError, load_checkpoint, save_checkpoint
from agd.ordering import OrderingConfig
from agd.training import TrainReport
from tests.test_training import poison_denoiser_step


@pytest.fixture
def tiny_checkpoint(tmp_path):
    bundle = ModelBundle.init(
        OrderingConfig(num_node_types=1, layers=1, heads=1, hidden=3,
                       embed_dim=4, pe_dim=4),
        DenoiserConfig(num_node_types=1, num_edge_types=2, layers=1,
                       hidden=5, mlp_hidden=6, mixtures=2),
        np.random.default_rng(0))
    path = tmp_path / "model.json"
    bundle.save(path)
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


class TestMakeDataset:
    def test_count_zero_writes_empty_file(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run(["make-dataset", "--kind", "caveman", "--count", 0,
                    "--seed", 1, "--out", out]) == 0
        assert out.read_text() == ""

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["make-dataset", "--kind", "community-small",
                        "--count", 4, "--seed", 9, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_count_rejected_without_writing(self, tmp_path, capsys):
        out = tmp_path / "neg.jsonl"
        assert run(["make-dataset", "--kind", "caveman", "--count", -1,
                    "--seed", 1, "--out", out]) == 1
        assert "--count" in _one_error_line(capsys)
        assert not out.exists()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["make-dataset", "--kind", "nope", "--count", 1,
                 "--seed", 1, "--out", tmp_path / "x"])


class TestGenerate:
    def test_generate_writes_corpus_and_traces(self, tmp_path, tiny_checkpoint):
        out = tmp_path / "gen.jsonl"
        traces = tmp_path / "traces.jsonl"
        assert run(["generate", "--checkpoint", tiny_checkpoint, "--count", 5,
                    "--n", 4, "--seed", 2, "--out", out,
                    "--traces-out", traces]) == 0
        corpus = load_corpus(out)
        assert len(corpus) == 5 and all(g.n == 4 for g in corpus.graphs)
        lines = traces.read_text().strip().split("\n")
        assert len(lines) == 5
        rec = json.loads(lines[0])
        assert rec["order"] == [0, 1, 2, 3]

    def test_deterministic_output(self, tmp_path, tiny_checkpoint):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["generate", "--checkpoint", tiny_checkpoint,
                        "--count", 4, "--n", 5, "--seed", 7, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_max_degree_enforced(self, tmp_path, tiny_checkpoint):
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--checkpoint", tiny_checkpoint, "--count", 6,
                    "--n", 7, "--max-degree", 2, "--seed", 3, "--out", out]) == 0
        for g in load_corpus(out).graphs:
            assert max(g.degree(v) for v in range(g.n)) <= 2

    def test_size_from_corpus(self, tmp_path, tiny_checkpoint):
        ref = tmp_path / "ref.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 5, "--seed", 4,
             "--out", ref])
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--checkpoint", tiny_checkpoint, "--count", 6,
                    "--size-from", ref, "--seed", 5, "--out", out]) == 0
        ref_sizes = set(load_corpus(ref).sizes())
        assert all(g.n in ref_sizes for g in load_corpus(out).graphs)

    def test_n_and_size_from_mutually_exclusive(self, tmp_path, tiny_checkpoint, capsys):
        code = run(["generate", "--checkpoint", tiny_checkpoint, "--count", 1,
                    "--n", 3, "--size-from", "whatever", "--out", tmp_path / "x"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def _drop_param(params, optimizers):
    del params["denoiser.nh1"]


def _add_param(params, optimizers):
    params["denoiser.extra"] = Parameter("extra", np.zeros(2))


def _reshape_param(params, optimizers):
    params["denoiser.nh1"] = Parameter("nh1", np.zeros((3, 3)))


def _moment_of_unknown_param(params, optimizers):
    optimizers["denoiser"].m["denoiser.ghost"] = np.zeros(2)
    optimizers["denoiser"].v["denoiser.ghost"] = np.zeros(2)


def _rewrite(edit):
    def apply(path):
        params, optimizers, config = load_checkpoint(path)
        edit(params, optimizers)
        save_checkpoint(path, params, optimizers, config)
    return apply


def _edit_bytes(edit):
    def apply(path):
        path.write_bytes(edit(path.read_bytes()))
    return apply


def _edit_header(path, keys, value):
    """Set the value at `keys` in the JSON header of the checkpoint at
    `path`; the payload is kept."""
    header, payload = path.read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)


class TestBadCheckpoint:
    @pytest.mark.parametrize("corrupt", [
        _rewrite(_drop_param), _rewrite(_add_param), _rewrite(_reshape_param),
        _rewrite(_moment_of_unknown_param),
        _edit_bytes(lambda b: b[:-8]),
        _edit_bytes(lambda b: b + bytes(8)),
        _edit_bytes(lambda b: b.replace(b'"format_version": 2', b'"format_version": 3', 1)),
        _edit_bytes(lambda b: b[:40]),
        lambda path: _edit_header(path, ("manifest", 0, 3, 0), math.inf),
        lambda path: _edit_header(path, ("manifest", 0, 2), None),
    ], ids=["missing-param", "extra-param", "wrong-shape", "unknown-moment",
            "truncated", "padded", "unknown-version", "truncated-header",
            "infinite-dimension", "unnamed-array"])
    def test_one_error_line(self, tmp_path, tiny_checkpoint, capsys, corrupt):
        path = Path(tiny_checkpoint)
        corrupt(path)
        code = run(["generate", "--checkpoint", path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("chosen, dims_of", [
        (lambda dims: dims == [1], lambda dims: [True]),
        (lambda dims: len(dims) == 2, lambda dims: [d + 0.9 for d in dims]),
    ], ids=["bool", "fractions"])
    def test_non_integer_dimension_is_one_error_line(self, tmp_path, tiny_checkpoint,
                                                     capsys, chosen, dims_of):
        # int() would read either as the stored shape, so the file would load
        path = Path(tiny_checkpoint)
        manifest = json.loads(path.read_bytes().split(b"\n", 1)[0])["manifest"]
        i = next(i for i, (*_, dims) in enumerate(manifest) if chosen(dims))
        _edit_header(path, ("manifest", i, 3), dims_of(manifest[i][3]))
        code = run(["generate", "--checkpoint", path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:") and "bad manifest entry" in err[0]

    def test_directory_is_an_error(self, tmp_path, capsys):
        code = run(["generate", "--checkpoint", tmp_path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err


def _key_paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _key_paths(child, prefix + (key,))


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 8) | st.integers()
                 | st.floats() | st.text(max_size=4)
                 | st.sampled_from(["gat", "gru-gate", "no", "x", "param", "m"]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=8)


class TestBadCheckpointHeader:
    @pytest.mark.parametrize("section, key, value", [
        ("denoiser", "hidden", 5.0), ("ordering", "num_node_types", 1.0),
        ("denoiser", "leaky_slope", "x"), ("denoiser", "edge_in_attention", "no"),
    ])
    def test_wrong_config_type_is_one_error_line(self, tmp_path, tiny_checkpoint,
                                                 capsys, section, key, value):
        path = Path(tiny_checkpoint)
        _edit_header(path, ("config", section, key), value)
        code = run(["generate", "--checkpoint", path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}:"), err
        assert key in err[0]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_header_value_loads_or_raises_checkpoint_error(self, tmp_path,
                                                               tiny_checkpoint, data):
        original = ModelBundle.load(tiny_checkpoint)
        header = json.loads(Path(tiny_checkpoint).read_bytes().split(b"\n", 1)[0])
        # weight the four top-level entries alike, the long manifest included
        top = data.draw(st.sampled_from(sorted(header)))
        keys = data.draw(st.sampled_from(list(_key_paths(header[top], (top,)))))
        path = tmp_path / "edited.ckpt"
        path.write_bytes(Path(tiny_checkpoint).read_bytes())
        _edit_header(path, keys, data.draw(_JSON_VALUES))
        try:
            bundle = ModelBundle.load(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
        else:
            for got, want in ((bundle.ordering.config, original.ordering.config),
                              (bundle.denoiser.config, original.denoiser.config)):
                for name, value in want.to_dict().items():
                    if name != "leaky_slope":
                        assert type(getattr(got, name)) is type(value), (name, got)


class TestEvaluate:
    def test_identical_corpora_zero_mmd(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 5, "--seed", 6,
             "--out", ref])
        report_path = tmp_path / "report.json"
        assert run(["evaluate", "--generated", ref, "--reference", ref,
                    "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["degree"] == report["clustering"] == report["orbit"] == 0.0
        assert report["novel"] == 0.0

    def test_descriptor_csv_export(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 4, "--seed", 7,
             "--out", ref])
        outdir = tmp_path / "descriptors"
        assert run(["evaluate", "--generated", ref, "--reference", ref,
                    "--out", tmp_path / "r.json",
                    "--descriptors-out", outdir]) == 0
        for kind in ("degree", "clustering", "orbit"):
            text = (outdir / f"{kind}.csv").read_text()
            assert text.startswith("graph,")
            assert len(text.strip().split("\n")) == 5

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = run(["evaluate", "--generated", tmp_path / "nope.jsonl",
                    "--reference", tmp_path / "nope.jsonl",
                    "--out", tmp_path / "r.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestNll:
    def test_records_and_determinism(self, tmp_path, tiny_checkpoint):
        corpus = tmp_path / "c.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 2, "--seed", 8,
             "--out", corpus])
        # caveman graphs are untyped: compatible with the 1-type checkpoint
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["nll", "--checkpoint", tiny_checkpoint, "--corpus",
                        corpus, "--samples", 20, "--seed", 11, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()
        rec = json.loads(a.read_text().strip().split("\n")[0])
        assert {"expected_nll", "is_marginal_nll", "n"} <= set(rec)
        assert rec["expected_nll"] >= rec["is_marginal_nll"] - 1e-9

    def test_exact_oracle_included_for_small_graphs(self, tmp_path, tiny_checkpoint):
        corpus = tmp_path / "c.jsonl"
        from agd.datasets import Corpus
        from agd.graphs import new_graph
        save_corpus(Corpus([new_graph([0, 0, 0], [(0, 1, 1)], 1, 2)], 1, 2),
                    corpus)
        out = tmp_path / "nll.jsonl"
        assert run(["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                    "--samples", 50, "--exact-max", 4, "--seed", 1,
                    "--out", out]) == 0
        rec = json.loads(out.read_text().strip())
        assert "exact_nll" in rec
        assert rec["expected_nll"] >= rec["exact_nll"] - 1e-9

    def test_exact_max_at_its_bound_is_accepted(self, tmp_path, tiny_checkpoint):
        corpus = tmp_path / "c.jsonl"
        from agd.datasets import Corpus
        from agd.graphs import new_graph
        save_corpus(Corpus([new_graph([0, 0], [(0, 1, 1)], 1, 2),
                            new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1)], 1, 2)], 1, 2),
                    corpus)
        out = tmp_path / "nll.jsonl"
        assert run(["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                    "--samples", 3, "--exact-max", 8, "--out", out]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["n"] for r in records] == [2, 3]
        assert all("exact_nll" in r for r in records)

    def test_exact_max_cap_is_the_enumeration_ceiling(self):
        import inspect

        import agd.cli as cli
        import agd.likelihood as likelihood
        default = inspect.signature(likelihood.exact_marginal).parameters["limit"].default
        assert cli.EXACT_MAX_NODES == likelihood.EXACT_MAX_NODES == default == 8

    def test_no_graphs_write_nothing(self, tmp_path, tiny_checkpoint, capsys):
        corpus, out = tmp_path / "empty.jsonl", tmp_path / "nll.jsonl"
        corpus.write_text("")
        assert run(["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                    "--samples", 3, "--out", out]) == 0
        assert out.read_text() == ""
        capsys.readouterr()
        assert run(["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                    "--samples", 3]) == 0
        assert capsys.readouterr().out == ""

    def test_stdout_holds_one_line_per_graph(self, tmp_path, tiny_checkpoint, capsys):
        corpus, out = tmp_path / "c.jsonl", tmp_path / "nll.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 2, "--seed", 8,
             "--out", corpus])
        argv = ["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                "--samples", 3, "--seed", 4]
        assert run(argv + ["--out", out]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out == out.read_text()
        assert len(out.read_text().splitlines()) == 2


class TestAblate:
    def test_report_structure(self, tmp_path, tiny_checkpoint):
        corpus = tmp_path / "c.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 4, "--seed", 2,
             "--out", corpus])
        out = tmp_path / "ablate.json"
        assert run(["ablate-ordering", "--checkpoint", tiny_checkpoint,
                    "--corpus", corpus, "--count", 6, "--seed", 4,
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        assert "cross_cluster_mean" in report["learned"]
        assert "cross_cluster_mean" in report["uniform_order_baseline"]
        assert "degree" in report["learned"]


class TestExportDot:
    def test_writes_one_file_per_graph(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        run(["make-dataset", "--kind", "typed-toy", "--count", 3, "--seed", 5,
             "--out", corpus])
        outdir = tmp_path / "dots"
        assert run(["export-dot", "--in", corpus, "--out", outdir]) == 0
        files = sorted(os.listdir(outdir))
        assert len(files) == 3
        text = (outdir / files[0]).read_text()
        assert text.startswith("graph")


class TestTrain:
    def test_end_to_end_tiny_training(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = tmp_path / "run.ini"
        ckpt_dir = tmp_path / "ckpts"
        config.write_text(f"""
[run]
seed = 5

[model]
node_types = 1
edge_types = 2
layers = 1
hidden = 5
mlp_hidden = 6
mixtures = 2
ordering_layers = 1
ordering_heads = 1
ordering_hidden = 3
ordering_embed = 4
ordering_pe = 4

[train]
epochs = 1
batch_size = 4
val_batch_size = 4
trajectories = 1
timesteps = 2

[paths]
corpus = {corpus}
checkpoint_dir = {ckpt_dir}
log = {tmp_path}/train.jsonl
report = {tmp_path}/report.json
""")
        assert run(["train", "--config", config]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["epoch_losses"]) == 1
        ckpt = report["selected_checkpoint"]
        assert ckpt is not None and os.path.exists(ckpt)
        log_lines = (tmp_path / "train.jsonl").read_text().strip().split("\n")
        assert all("timestamp" in json.loads(l) for l in log_lines)
        # the checkpoint is loadable and usable
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--checkpoint", ckpt, "--count", 2, "--n", 4,
                    "--seed", 0, "--out", out]) == 0
        assert len(load_corpus(out)) == 2

    def test_output_in_a_missing_directory_fails_before_any_work(self, tmp_path, capsys,
                                                                 monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = _write_config(tmp_path, corpus)
        config.write_text(config.read_text() + "report = missing_dir/report.json\n")
        monkeypatch.chdir(tmp_path)
        assert run(["train", "--config", config]) == 1
        assert "'report'" in _one_error_line(capsys)
        assert not (tmp_path / "ckpts").exists()

    def test_bad_config_reports_error(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[run]\nseed = 1\n\n[model]\nnode_types = 1\n"
                          "edge_types = 2\nbogus_key = 3\n")
        assert run(["train", "--config", config]) == 1
        assert "bogus_key" in capsys.readouterr().err


    def test_diverged_run_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = _write_config(tmp_path, corpus, train={"batch_size": 1})
        poison_denoiser_step(monkeypatch, 2)
        assert run(["train", "--config", config]) == 1
        line = _one_error_line(capsys)
        assert "denoiser step 2" in line, line

    def test_diverged_run_names_the_op(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = _write_config(tmp_path, corpus, train={"batch_size": 1})
        poison_denoiser_step(monkeypatch, 1)
        assert run(["train", "--config", config]) == 1
        line = _one_error_line(capsys)
        assert "denoiser step 1: mul produced a non-finite value" in line, line


class TestBadOrderingConfig:
    @pytest.mark.parametrize("key, value", [
        ("ordering_pe", 3), ("ordering_pe", 0), ("ordering_heads", 0),
        ("ordering_hidden", 0), ("ordering_embed", 0), ("ordering_layers", -1),
        ("node_types", 0),
    ])
    def test_one_error_line_naming_the_key(self, tmp_path, capsys, key, value):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 5, "--seed", 3,
             "--out", corpus])
        model = {"node_types": 1, "edge_types": 2, key: value}
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 1\n\n[model]\n"
                          + "".join(f"{k} = {v}\n" for k, v in model.items())
                          + f"\n[paths]\ncorpus = {corpus}\n"
                          + f"checkpoint_dir = {tmp_path / 'ckpts'}\n")
        assert run(["train", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert f"'{key}'" in err[0]
        assert not (tmp_path / "ckpts").exists()


def _write_config(tmp_path, corpus, model=(), train=(), val_corpus=None):
    """A tiny-width run config; `model` and `train` entries override keys."""
    model = {"node_types": 1, "edge_types": 2, "layers": 1, "hidden": 5,
             "mlp_hidden": 6, "mixtures": 2, "ordering_layers": 1,
             "ordering_heads": 1, "ordering_hidden": 3, "ordering_embed": 4,
             "ordering_pe": 4, **dict(model)}
    train = {"epochs": 1, "batch_size": 4, "trajectories": 1, "timesteps": 2,
             **dict(train)}
    config = tmp_path / "run.ini"
    config.write_text("[run]\nseed = 1\n\n[model]\n"
                      + "".join(f"{k} = {v}\n" for k, v in model.items())
                      + "\n[train]\n"
                      + "".join(f"{k} = {v}\n" for k, v in train.items())
                      + f"\n[paths]\ncorpus = {corpus}\n"
                      + (f"val_corpus = {val_corpus}\n" if val_corpus else "")
                      + f"checkpoint_dir = {tmp_path / 'ckpts'}\n")
    return config


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestBadModelAndTrainConfig:
    @pytest.mark.parametrize("section, key, value", [
        ("model", "layers", -1), ("model", "mixtures", 0), ("model", "hidden", 0),
        ("model", "mlp_hidden", 0), ("model", "edge_types", 0),
        ("model", "aggregator", "mean-pool"),
        ("train", "epochs", -1), ("train", "batch_size", 0),
        ("train", "val_batch_size", 0), ("train", "trajectories", 0),
        ("train", "timesteps", 0), ("train", "soft_label_top_k", 0),
        ("train", "baseline_decay", 7), ("train", "baseline_decay", -0.5),
        ("train", "lr_denoiser", 0), ("train", "lr_ordering", -1),
        ("train", "eval_every", -1), ("train", "select_samples", -1),
    ])
    def test_one_error_line_naming_the_key(self, tmp_path, capsys, section, key, value):
        # the corpus is not valid JSON, so reaching it would give another error
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("not json\n")
        config = _write_config(tmp_path, corpus, **{section: {key: value}})
        assert run(["train", "--config", config]) == 1
        line = _one_error_line(capsys)
        assert f"'{key}' in [{section}]" in line, line
        assert not (tmp_path / "ckpts").exists()


class TestBadVocabulary:
    @pytest.fixture
    def typed_corpus(self, tmp_path):
        corpus = tmp_path / "typed.jsonl"
        run(["make-dataset", "--kind", "typed-toy", "--count", 6, "--seed", 3,
             "--out", corpus])
        return corpus

    @pytest.mark.parametrize("model", [
        {"node_types": 2, "edge_types": 4},
        {"node_types": 4, "edge_types": 2},
    ])
    def test_train_rejects_a_larger_corpus_vocabulary(self, tmp_path, capsys,
                                                      typed_corpus, model):
        config = _write_config(tmp_path, typed_corpus, model=model)
        assert run(["train", "--config", config]) == 1
        line = _one_error_line(capsys)
        assert "typed.jsonl" in line and "node types" in line
        assert not (tmp_path / "ckpts").exists()

    def test_train_checks_the_validation_corpus(self, tmp_path, capsys, typed_corpus):
        corpus = tmp_path / "untyped.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = _write_config(tmp_path, corpus, val_corpus=typed_corpus)
        assert run(["train", "--config", config]) == 1
        assert "typed.jsonl" in _one_error_line(capsys)
        assert not (tmp_path / "ckpts").exists()

    def test_nll_rejects_a_larger_corpus_vocabulary(self, tmp_path, capsys,
                                                    tiny_checkpoint, typed_corpus):
        out = tmp_path / "nll.jsonl"
        assert run(["nll", "--checkpoint", tiny_checkpoint, "--corpus", typed_corpus,
                    "--samples", 2, "--out", out]) == 1
        assert "typed.jsonl" in _one_error_line(capsys)
        assert not out.exists()

    def test_a_smaller_corpus_vocabulary_trains(self, tmp_path, typed_corpus):
        config = _write_config(tmp_path, typed_corpus,
                               model={"node_types": 5, "edge_types": 5,
                                      "aggregator": "gru-gate"})
        assert run(["train", "--config", config]) == 0


class TestAblateBaselineCheckpoint:
    def test_same_checkpoint_twice_gives_the_same_stats(self, tmp_path, tiny_checkpoint):
        corpus = tmp_path / "c.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 4, "--seed", 2,
             "--out", corpus])
        out = tmp_path / "ablate.json"
        assert run(["ablate-ordering", "--checkpoint", tiny_checkpoint,
                    "--baseline-checkpoint", tiny_checkpoint, "--corpus", corpus,
                    "--count", 6, "--seed", 4, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["baseline_checkpoint"] == report["learned"]


class TestBadCounts:
    def test_generate_rejects_a_negative_count(self, tmp_path, capsys, tiny_checkpoint):
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--checkpoint", tiny_checkpoint, "--count", -3,
                    "--n", 4, "--out", out]) == 1
        assert "count" in _one_error_line(capsys)
        assert not out.exists()

    def test_ablate_rejects_a_zero_count_before_any_work(self, tmp_path, capsys,
                                                         tiny_checkpoint):
        corpus = tmp_path / "c.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 4, "--seed", 2,
             "--out", corpus])
        out = tmp_path / "ablate.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["ablate-ordering", "--checkpoint", tiny_checkpoint,
                        "--corpus", corpus, "--count", 0, "--out", out]) == 1
        assert "--count" in _one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--samples", 0), ("--samples", -2),
                                             ("--exact-max", -1), ("--exact-max", 9)])
    def test_nll_rejects_a_bad_count_before_the_checkpoint_loads(self, tmp_path, capsys,
                                                                 flag, value):
        out = tmp_path / "nll.jsonl"
        args = {"--samples": 2, "--exact-max": 0, flag: value}
        assert run(["nll", "--checkpoint", tmp_path / "missing.ckpt", "--corpus",
                    tmp_path / "missing.jsonl", "--out", out,
                    *[a for kv in args.items() for a in kv]]) == 1
        assert flag in _one_error_line(capsys)
        assert not out.exists()


    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_evaluate_rejects_a_bad_sigma_before_loading_a_corpus(self, tmp_path, capsys,
                                                                  value):
        out = tmp_path / "eval.json"
        assert run(["evaluate", "--generated", tmp_path / "missing.jsonl",
                    "--reference", tmp_path / "missing.jsonl", "--out", out,
                    "--sigma", value]) == 1
        assert "--sigma" in _one_error_line(capsys)
        assert not out.exists()


class TestMalformedCorpus:
    @pytest.mark.parametrize("line", ["[1,2]", '{"nodes":[0,0],"meta":"x"}',
                                      '{"nodes":[0,1.5]}'])
    def test_every_corpus_reader_prints_one_error_line(self, tmp_path, capsys, line):
        corpus = tmp_path / "list.jsonl"
        corpus.write_text(line + "\n")
        outdir = tmp_path / "dot"
        assert run(["export-dot", "--in", corpus, "--out", outdir]) == 1
        assert f"{corpus}:1:" in _one_error_line(capsys)
        assert run(["evaluate", "--generated", corpus, "--reference", corpus,
                    "--out", tmp_path / "eval.json"]) == 1
        assert f"{corpus}:1:" in _one_error_line(capsys)


class TestBadValFraction:
    @pytest.mark.parametrize("value", [7, -1, 0, 1])
    def test_one_error_line_before_the_checkpoint_dir(self, tmp_path, capsys, value):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = _write_config(tmp_path, corpus, train={"val_fraction": value})
        assert run(["train", "--config", config]) == 1
        assert "'val_fraction' in [train]" in _one_error_line(capsys)
        assert not (tmp_path / "ckpts").exists()

    def test_a_fraction_inside_the_interval_trains(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        config = _write_config(tmp_path, corpus, train={"val_fraction": 0.5})
        assert run(["train", "--config", config]) == 0


def _rename_param(old, new):
    def apply(path):
        params, optimizers, config = load_checkpoint(path)
        params[new] = params.pop(old)
        save_checkpoint(path, params, optimizers, config)
    return apply


class TestBadCheckpointScalars:
    @pytest.mark.parametrize("field, value", [
        ("lr", "x"), ("lr", True), ("lr", None), ("beta1", [0.9]), ("beta2", "0.999"),
        ("eps", 1e400), ("eps", 10**400), ("step", 1.5), ("step", -1), ("step", True),
        ("step", "3"),
    ])
    def test_bad_scalar_is_one_error_line(self, tmp_path, tiny_checkpoint, capsys,
                                          field, value):
        path = Path(tiny_checkpoint)
        _edit_header(path, ("optimizers", "ordering", field), value)
        code = run(["generate", "--checkpoint", path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}:"), err
        assert f"'ordering' field '{field}'" in err[0], err

    def test_parameter_names_are_quoted(self, tmp_path, tiny_checkpoint, capsys):
        path = Path(tiny_checkpoint)
        _rename_param("denoiser.nh1", "denoiser.a\nb")(path)
        code = run(["generate", "--checkpoint", path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}:"), err
        assert "missing: 'denoiser.nh1'" in err[0] and r"'denoiser.a\nb'" in err[0], err

    def test_slope_beyond_float64_is_one_error_line(self, tmp_path, tiny_checkpoint,
                                                    capsys):
        path = Path(tiny_checkpoint)
        _edit_header(path, ("config", "ordering", "leaky_slope"), 10**400)
        code = run(["generate", "--checkpoint", path, "--count", 1, "--n", 3,
                    "--out", tmp_path / "g.jsonl"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}:"), err
        assert "leaky_slope" in err[0], err


def _nan_parameter(params, optimizers):
    params["denoiser.node_embed"].data[0, 0] = math.nan


def _inf_moment(params, optimizers):
    embed = params["ordering.embed"].data
    optimizers["ordering"].m["ordering.embed"] = np.full_like(embed, math.inf)
    optimizers["ordering"].v["ordering.embed"] = np.zeros_like(embed)


class TestNonFiniteCheckpoint:
    """A checkpoint holding NaN or inf is refused with one `error:` line
    naming the file, by every command that reads one."""

    @pytest.mark.parametrize("corrupt", [_nan_parameter, _inf_moment],
                             ids=["nan-parameter", "inf-moment"])
    @pytest.mark.parametrize("command", ["generate", "nll"])
    def test_one_error_line_naming_the_file(self, tmp_path, tiny_checkpoint, capsys,
                                            corrupt, command):
        _rewrite(corrupt)(Path(tiny_checkpoint))
        if command == "generate":
            argv = ["generate", "--checkpoint", tiny_checkpoint, "--count", 1,
                    "--n", 3, "--out", tmp_path / "g.jsonl"]
        else:
            corpus = tmp_path / "c.jsonl"
            assert run(["make-dataset", "--kind", "caveman", "--count", 1,
                        "--seed", 8, "--out", corpus]) == 0
            capsys.readouterr()
            argv = ["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                    "--samples", 2, "--seed", 1, "--out", tmp_path / "n.jsonl"]
        assert run(argv) == 1
        line = _one_error_line(capsys)
        assert line.startswith(f"error: {tiny_checkpoint}: "), line
        assert "non-finite" in line, line


def _misfiled_moment(owner, name):
    """Give optimizer `owner` zero Adam moments for the parameter `name`."""
    def edit(params, optimizers):
        zeros = np.zeros_like(params[name].data)
        optimizers[owner].m[name] = zeros
        optimizers[owner].v[name] = zeros.copy()
    return edit


class TestMisfiledMoment:
    """An optimizer holding a moment for the other network's parameter is
    refused, not loaded under a stripped name that a later save could not
    load back."""

    @pytest.mark.parametrize("owner, name", [("denoiser", "ordering.embed"),
                                             ("ordering", "denoiser.nh1")])
    def test_load_names_the_file_optimizer_and_moment(self, tiny_checkpoint, owner, name):
        _rewrite(_misfiled_moment(owner, name))(Path(tiny_checkpoint))
        load_checkpoint(tiny_checkpoint)        # well formed on its own
        with pytest.raises(CheckpointError) as info:
            ModelBundle.load(tiny_checkpoint)
        message = str(info.value)
        assert message.startswith(f"{tiny_checkpoint}: ")
        assert f"optimizer {owner!r}" in message and repr(name) in message

    def test_generate_prints_one_error_line(self, tmp_path, tiny_checkpoint, capsys):
        _rewrite(_misfiled_moment("denoiser", "ordering.embed"))(Path(tiny_checkpoint))
        assert run(["generate", "--checkpoint", tiny_checkpoint, "--count", 1,
                    "--n", 3, "--out", tmp_path / "g.jsonl"]) == 1
        line = _one_error_line(capsys)
        assert line.startswith(f"error: {tiny_checkpoint}: "), line
        assert "'ordering.embed'" in line, line
        assert not (tmp_path / "g.jsonl").exists()

    def test_own_moments_still_load(self, tiny_checkpoint):
        _rewrite(_misfiled_moment("denoiser", "denoiser.nh1"))(Path(tiny_checkpoint))
        assert list(ModelBundle.load(tiny_checkpoint).adam_denoiser.m) == ["nh1"]


class TestInfiniteLearningRate:
    @pytest.mark.parametrize("key", ["lr_denoiser", "lr_ordering"])
    def test_one_error_line_before_any_checkpoint(self, tmp_path, capsys, key):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("not json\n")
        config = _write_config(tmp_path, corpus, train={key: "inf"})
        assert run(["train", "--config", config]) == 1
        line = _one_error_line(capsys)
        assert f"'{key}' in [train]" in line, line
        assert not (tmp_path / "ckpts").exists()


class TestValidationCorpus:
    """`[paths] val_corpus` replaces the split: the whole corpus trains and
    the given corpus validates."""

    def test_fit_gets_the_given_validation_graphs(self, tmp_path, monkeypatch):
        corpus, val_corpus = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        run(["make-dataset", "--kind", "caveman", "--count", 2, "--seed", 4,
             "--out", val_corpus])
        seen = []

        def fake_fit(train, val, model, config, **kwargs):
            seen.append((train, val))
            return model, TrainReport()

        monkeypatch.setattr("agd.cli.fit", fake_fit)
        config = _write_config(tmp_path, corpus, train={"val_fraction": 0.5},
                               val_corpus=val_corpus)
        assert run(["train", "--config", config]) == 0
        assert seen == [(load_corpus(corpus).graphs, load_corpus(val_corpus).graphs)]

    def test_an_unknown_node_type_names_the_validation_file(self, tmp_path, capsys):
        corpus, val_corpus = tmp_path / "train.jsonl", tmp_path / "val.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        save_corpus(Corpus([new_graph([0, 1, 1], [(0, 1, 1), (1, 2, 1)], 2, 2)], 2, 2),
                    val_corpus)
        config = _write_config(tmp_path, corpus, val_corpus=val_corpus)
        assert run(["train", "--config", config]) == 1
        line = _one_error_line(capsys)
        assert str(val_corpus) in line and "2 node types" in line, line
        assert not (tmp_path / "ckpts").exists()


def _cli_process(argv, memory_limit=None):
    """`agd argv` in a fresh interpreter, with python's default warning
    filters and at most `memory_limit` bytes of address space: (exit code,
    stderr lines)."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONWARNINGS", None)
    limit = None if memory_limit is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit)))
    done = subprocess.run([sys.executable, "-m", "agd.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, preexec_fn=limit)
    return done.returncode, done.stderr.splitlines()


def _huge_entry(name):
    """Set one entry of parameter `name` to 1e308: finite, so the checkpoint
    loads, but the first sum through it overflows."""
    def edit(params, optimizers):
        params[name].data.flat[0] = 1e308
    return edit


class TestOverflowAndMemory:
    """A finite checkpoint whose values overflow, or a width that cannot be
    allocated, ends in one `error:` line, and a run that exits 0 prints no
    numpy warning."""

    @pytest.fixture
    def corpus(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        assert run(["make-dataset", "--kind", "caveman", "--count", 2, "--seed", 8,
                    "--out", corpus]) == 0
        return corpus

    @pytest.mark.parametrize("command", ["generate", "nll", "ablate-ordering"])
    def test_an_overflowing_denoiser_is_one_error_line(self, tmp_path, tiny_checkpoint,
                                                       corpus, command):
        _rewrite(_huge_entry("denoiser.node_embed"))(Path(tiny_checkpoint))
        argv = {"generate": ["--count", 1, "--n", 3, "--out", tmp_path / "g.jsonl"],
                "nll": ["--corpus", corpus, "--samples", 2, "--out", tmp_path / "n.jsonl"],
                "ablate-ordering": ["--corpus", corpus, "--count", 1]}[command]
        code, err = _cli_process([command, "--checkpoint", tiny_checkpoint, *argv])
        assert code == 1 and len(err) == 1, err
        assert re.fullmatch(r"error: \w+ produced a non-finite value", err[0]), err

    def test_an_overflowing_ordering_embedding_warns_nothing(self, tmp_path,
                                                             tiny_checkpoint, corpus):
        _rewrite(_huge_entry("ordering.embed"))(Path(tiny_checkpoint))
        code, err = _cli_process(["nll", "--checkpoint", tiny_checkpoint, "--corpus", corpus,
                                  "--samples", 2, "--out", tmp_path / "n.jsonl"])
        assert code == 0 and err == [], err

    def test_an_unallocatable_width_is_one_error_line(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        run(["make-dataset", "--kind", "caveman", "--count", 6, "--seed", 3,
             "--out", corpus])
        # a (2, 10^9) embedding is 16 GB, over the 4 GB the process may map
        config = _write_config(tmp_path, corpus, model={"hidden": 10 ** 9})
        code, err = _cli_process(["train", "--config", config], memory_limit=4 << 30)
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith("error: Unable to allocate "), err
