from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from agd.config import _SCHEMA, ConfigError, RunConfig, _parse
from agd.denoiser import DenoiserConfig
from agd.metrics import descriptors_csv
from agd.graphs import new_graph
from agd.ordering import OrderingConfig
from agd.training import TrainConfig


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return path


MINIMAL = """
[run]
seed = 11

[model]
node_types = 2
edge_types = 3
"""


class TestRunConfig:
    def test_defaults_applied(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, MINIMAL))
        assert cfg.seed == 11
        assert cfg.model["layers"] == 7 and cfg.model["hidden"] == 128
        assert cfg.model["mixtures"] == 20
        assert cfg.model["ordering_heads"] == 6
        assert cfg.train["trajectories"] == 4
        assert cfg.train["lr_denoiser"] == 1e-4
        assert cfg.train["lr_ordering"] == 5e-4
        assert cfg.train["val_fraction"] == 0.2

    def test_builders(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, MINIMAL))
        oc = cfg.ordering_config()
        dc = cfg.denoiser_config()
        tc = cfg.train_config()
        assert oc.layers == 3 and oc.heads == 6 and oc.hidden == 32
        assert dc.aggregator == "gat" and dc.layers == 7
        assert tc.seed == 11

    def test_missing_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path, "[model]\nnode_types = 1\n"
                                                  "edge_types = 2\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path, MINIMAL + "\n[extra]\nx = 1\n"))

    def test_bad_boolean_rejected(self, tmp_path):
        body = MINIMAL + "\n[train]\nbaseline = maybe\n"
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path, body))

    def test_missing_input_path_rejected(self, tmp_path):
        body = MINIMAL + "\n[paths]\ncorpus = /nonexistent/x.jsonl\n"
        with pytest.raises(ConfigError):
            RunConfig.load(write_config(tmp_path, body))

    @pytest.mark.parametrize("key", ["log", "report"])
    def test_output_path_in_a_missing_directory_rejected(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        body = MINIMAL + f"\n[paths]\n{key} = missing_dir/out.json\n"
        with pytest.raises(ConfigError, match=f"'{key}'.*missing_dir"):
            RunConfig.load(write_config(tmp_path, body))

    def test_output_paths_resolve_against_the_working_directory(self, tmp_path,
                                                                monkeypatch):
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)
        body = MINIMAL + "\n[paths]\nlog = train.jsonl\nreport = out/report.json\n"
        cfg = RunConfig.load(write_config(tmp_path, body))
        assert cfg.paths["log"] == "train.jsonl"
        assert cfg.paths["report"] == "out/report.json"

    def test_val_fraction_switch(self, tmp_path):
        body = MINIMAL + "\n[train]\nval_fraction = 0.25\n"
        cfg = RunConfig.load(write_config(tmp_path, body))
        assert cfg.train["val_fraction"] == 0.25


class TestLiteralValues:
    @pytest.mark.parametrize("value", ["run%.jsonl", "%(x)s", "100%%", "%"])
    def test_percent_is_read_literally(self, tmp_path, value):
        body = MINIMAL + f"\n[paths]\nlog = {value}\nreport = {value}\n"
        cfg = RunConfig.load(write_config(tmp_path, body))
        assert cfg.paths["log"] == cfg.paths["report"] == value

    def test_missing_section_header_is_one_line(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            RunConfig.load(write_config(tmp_path, "seed = 1\n" + MINIMAL))
        assert "\n" not in str(err.value)
        assert "no section headers" in str(err.value)

    def test_value_spanning_lines_rejected(self, tmp_path):
        body = MINIMAL + "\n[paths]\nlog = a.jsonl\n  b.jsonl\n"
        with pytest.raises(ConfigError, match="'log' in \\[paths\\]") as err:
            RunConfig.load(write_config(tmp_path, body))
        assert "\n" not in str(err.value)


# INI-like text: lines from the schema's sections and keys, with values
# that are sometimes valid and sometimes not, mixed with arbitrary lines.
_KEYS = sorted({key for keys in _SCHEMA.values() for key in keys}) + ["bogus"]
_VALUES = (st.sampled_from(["1", "0", "-1", "4", "0.5", "nan", "inf", "on", "gat",
                            "gru-gate", "", "%", "%(x)s", "run%.jsonl", "."])
           | st.text(max_size=6))
_HEADER = st.sampled_from([f"[{s}]" for s in _SCHEMA] + ["[DEFAULT]", "[extra]", "[run"])
_KEY_LINE = st.builds(lambda k, sep, v: f"{k}{sep}{v}", st.sampled_from(_KEYS),
                      st.sampled_from([" = ", "=", ": ", " "]), _VALUES)
_CONTINUATION = st.builds(lambda v: "  " + v, _VALUES)
# mostly key lines, some headers, few continuations and arbitrary lines
_LINES = st.lists(st.sampled_from([_HEADER] * 3 + [_KEY_LINE] * 12 + [
    _CONTINUATION, st.text(max_size=12)]).flatmap(lambda line: line), max_size=8)


class TestConfigFuzz:
    """Any text either loads or raises one ConfigError line, never another
    exception."""

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(prefix=st.sampled_from(["", MINIMAL, MINIMAL, MINIMAL]), lines=_LINES)
    def test_any_text_loads_or_raises_one_config_error_line(self, tmp_path, prefix,
                                                            lines):
        path = write_config(tmp_path, prefix + "\n".join(lines) + "\n")
        try:
            cfg = RunConfig.load(path)
        except ConfigError as exc:
            assert "\n" not in str(exc) and "\r" not in str(exc), str(exc)
        else:
            cfg.ordering_config(), cfg.denoiser_config(), cfg.train_config()


class TestTypedGraphDefaults:
    def test_for_typed_graphs(self):
        cfg = DenoiserConfig.for_typed_graphs(4, 4)
        assert cfg.aggregator == "gru-gate"
        assert cfg.layers == 5 and cfg.hidden == 256 and cfg.mlp_hidden == 256
        assert cfg.mixtures == 20

    def test_overrides(self):
        cfg = DenoiserConfig.for_typed_graphs(4, 4, hidden=8, layers=1)
        assert cfg.hidden == 8 and cfg.layers == 1
        assert cfg.aggregator == "gru-gate"


class TestDescriptorCsv:
    def test_rows_and_padding(self):
        g1 = new_graph([0, 0], [(0, 1, 1)], 1, 2)       # degrees 1, 1
        g2 = new_graph([0, 0, 0], [(0, 1, 1), (1, 2, 1), (0, 2, 1)], 1, 2)
        text = descriptors_csv([g1, g2], "degree")
        lines = text.strip().split("\n")
        assert lines[0] == "graph,degree_0,degree_1,degree_2"
        assert lines[1].startswith("0,")
        assert len(lines) == 3
        # parse back: g1 padded with zero for the degree-2 bin
        row1 = [float(v) for v in lines[1].split(",")[1:]]
        assert row1 == [0.0, 1.0, 0.0]


class TestSchemaFromDataclasses:
    def test_minimal_config_builds_the_dataclass_defaults(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, MINIMAL))
        assert cfg.ordering_config() == OrderingConfig(2)
        assert cfg.denoiser_config() == DenoiserConfig(2, 3)
        assert cfg.train_config() == TrainConfig(epochs=10, seed=11)

    @pytest.mark.parametrize("section", ["model", "train"])
    def test_every_type_tag_is_one_the_parser_reads(self, section):
        # any other tag would be read as text
        for key, (kind, _) in _SCHEMA[section].items():
            assert kind in ("int", "float", "bool", "str"), (key, kind)


def _readme_config_block():
    """[(section, key, value)] of the README's `ini` config reference, with
    `;` comments stripped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    entries, section = [], None
    for line in block.splitlines():
        line = line.split(";", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries.append((section, key, value))
    return entries


class TestReadmeConfigReference:
    def test_keys_are_the_schema_keys(self):
        listed = [(section, key) for section, key, _ in _readme_config_block()]
        schema = [(section, key) for section, keys in _SCHEMA.items() for key in keys]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(schema)

    def test_defaults_are_the_schema_defaults(self):
        checked = 0
        for section, key, value in _readme_config_block():
            kind, default = _SCHEMA[section][key]
            if section in ("model", "train") and default is not None:
                assert _parse(section, key, kind, value) == default, (section, key)
                checked += 1
        assert checked == sum(default is not None
                              for section in ("model", "train")
                              for _, default in _SCHEMA[section].values())
