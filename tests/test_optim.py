import json
import os

import numpy as np
import pytest

from agd.autodiff import Parameter, ShapeError
from agd.optim import (AdamState, CheckpointError, adam_step, load_checkpoint,
                       save_checkpoint)


def params_of(values):
    return {k: Parameter(k, v) for k, v in values.items()}


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = params_of({"w": np.array([1.0, -2.0])})
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"].data, [1.0, -2.0])

    def test_first_step_magnitude_is_learning_rate(self):
        g = np.array([0.3, -2.0, 11.0])
        params = params_of({"w": np.zeros(3)})
        state = AdamState(lr=0.01)
        adam_step(params, {"w": g}, state)
        # bias-corrected first step: lr * g / (|g| + eps) = lr * sign(g)
        assert np.allclose(params["w"].data, -0.01 * np.sign(g), rtol=1e-6)

    def test_deterministic_across_identical_runs(self):
        g = {"w": np.array([0.5, 0.1]), "b": np.array(2.0)}

        def run():
            params = params_of({"w": np.array([1.0, 2.0]), "b": np.array(0.5)})
            state = AdamState(lr=0.05)
            for _ in range(7):
                adam_step(params, g, state)
            return {k: p.data.copy() for k, p in params.items()}

        a, b = run(), run()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_shape_mismatch_rejected(self):
        params = params_of({"w": np.zeros(3)})
        with pytest.raises(ShapeError):
            adam_step(params, {"w": np.zeros(4)}, AdamState(lr=0.1))

    def test_accumulator_shapes_match_parameters(self):
        params = params_of({"w": np.zeros((2, 3))})
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.ones((2, 3))}, state)
        assert state.m["w"].shape == (2, 3) and state.v["w"].shape == (2, 3)
        assert state.step == 1


class TestCheckpointFile:
    def test_roundtrip_with_optimizer_state(self, tmp_path):
        params = params_of({"a": np.array([1.5, -2.5]), "b": np.eye(2)})
        state = AdamState(lr=0.01, step=4)
        state.m = {"a": np.array([0.1, 0.2]), "b": np.zeros((2, 2))}
        state.v = {"a": np.array([0.3, 0.4]), "b": np.ones((2, 2))}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, {"opt": state}, config={"note": 1})
        loaded_params, optimizers, config = load_checkpoint(path)
        assert config == {"note": 1}
        for k in params:
            assert np.array_equal(loaded_params[k].data, params[k].data)
        assert optimizers["opt"].step == 4
        assert np.array_equal(optimizers["opt"].v["b"], np.ones((2, 2)))

    def test_version_tag_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "params": {}}))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_float_values_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=17) * 1e-7
        params = params_of({"w": data})
        path = tmp_path / "c.json"
        save_checkpoint(path, params)
        loaded, _, _ = load_checkpoint(path)
        assert np.array_equal(loaded["w"].data, data)

    def test_file_is_header_line_plus_raw_floats(self, tmp_path):
        params = params_of({"a": np.arange(6.0).reshape(2, 3), "b": np.array(0.5)})
        state = AdamState(lr=0.01)
        adam_step(params, {"a": np.ones((2, 3)), "b": np.array(1.0)}, state)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, {"opt": state})
        header = path.read_bytes().split(b"\n", 1)[0] + b"\n"
        floats = 3 * (6 + 1)     # parameters, then first and second moments
        assert path.stat().st_size == len(header) + 8 * floats
        assert json.loads(header)["format_version"] == 2

    def test_loaded_arrays_are_writable_and_own_memory(self, tmp_path):
        params = params_of({"w": np.ones((2, 2))})
        state = AdamState(lr=0.1)
        adam_step(params, {"w": np.ones((2, 2))}, state)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params, {"opt": state})
        loaded, optimizers, _ = load_checkpoint(path)
        for a in (loaded["w"].data, optimizers["opt"].m["w"], optimizers["opt"].v["w"]):
            assert a.flags.writeable and a.flags.owndata
            assert a.dtype == np.float64

    def test_version_1_json_loads_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        w, m, v = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.random((2, 3))
        doc = {"format_version": 1, "config": {"k": 2},
               "params": {"w": {"shape": [2, 3], "data": w.reshape(-1).tolist()}},
               "optimizers": {"opt": {"lr": 0.5, "beta1": 0.8, "beta2": 0.99,
                                      "eps": 1e-7, "step": 3,
                                      "m": {"w": m.reshape(-1).tolist()},
                                      "v": {"w": v.reshape(-1).tolist()}}}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
        loaded, optimizers, config = load_checkpoint(path)
        assert config == {"k": 2}
        assert np.array_equal(loaded["w"].data, w)
        st = optimizers["opt"]
        assert (st.lr, st.beta1, st.beta2, st.eps, st.step) == (0.5, 0.8, 0.99, 1e-7, 3)
        assert np.array_equal(st.m["w"], m) and np.array_equal(st.v["w"], v)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params_of({"w": np.ones(3)}))
        before = path.read_bytes()
        params = params_of({"a": np.zeros(2), "b": np.zeros(1)})
        params["b"].data = np.array(["not a float"])   # fails after "a" is written
        with pytest.raises(ValueError):
            save_checkpoint(path, params)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.ckpt"]

    @pytest.mark.parametrize("edit", ["truncate", "pad"])
    def test_payload_length_checked(self, tmp_path, edit):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params_of({"w": np.ones(4)}))
        data = path.read_bytes()
        path.write_bytes(data[:-3] if edit == "truncate" else data + b"\0" * 8)
        with pytest.raises(CheckpointError, match="truncated or padded"):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape, dims", [
        ((1,), [True]), ((2, 3), [2.9, 3.2]), ((2, 3), [2.0, 3]), ((4,), ["4"]),
        ((2, 3), [2, None]),
    ], ids=["bool", "fractions", "integral-float", "text", "null"])
    def test_non_integer_manifest_dimension_rejected(self, tmp_path, shape, dims):
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params_of({"w": np.ones(shape)}))
        header, payload = path.read_bytes().split(b"\n", 1)
        doc = json.loads(header)
        doc["manifest"][0][3] = dims
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError, match="bad manifest entry"):
            load_checkpoint(path)

    def test_moment_of_unknown_parameter_rejected(self, tmp_path):
        state = AdamState(lr=0.1)
        state.m = {"ghost": np.zeros(2)}
        state.v = {"ghost": np.zeros(2)}
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params_of({"w": np.ones(2)}), {"opt": state})
        with pytest.raises(CheckpointError, match="ghost"):
            load_checkpoint(path)


class TestNonFiniteValuesRefused:
    """A checkpoint holding NaN or inf in any array fails as CheckpointError
    naming the file and the array, in either format version."""

    @staticmethod
    def _write(path, version, bad, where):
        w, m, v = np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))
        {"param": w, "m": m, "v": v}[where][1, 0] = bad
        if version == 2:
            state = AdamState(lr=0.1, step=1, m={"w": m}, v={"w": v})
            save_checkpoint(path, params_of({"w": w}), {"opt": state})
            return
        doc = {"format_version": 1, "config": {},
               "params": {"w": {"shape": [2, 2], "data": w.reshape(-1).tolist()}},
               "optimizers": {"opt": {"lr": 0.1, "beta1": 0.9, "beta2": 0.999,
                                      "eps": 1e-8, "step": 1,
                                      "m": {"w": m.reshape(-1).tolist()},
                                      "v": {"w": v.reshape(-1).tolist()}}}}
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where, named", [
        ("param", "parameter 'w'"), ("m", "moment m of 'w'"), ("v", "moment v of 'w'")])
    def test_refused_naming_file_and_array(self, tmp_path, version, bad, where, named):
        path = tmp_path / "c.ckpt"
        self._write(path, version, bad, where)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and named in message, message
        assert "non-finite" in message

    @pytest.mark.parametrize("version", [1, 2])
    def test_finite_extremes_load(self, tmp_path, version):
        path = tmp_path / "c.ckpt"
        self._write(path, version, np.finfo(np.float64).max, "param")
        params, _, _ = load_checkpoint(path)
        assert params["w"].data[1, 0] == np.finfo(np.float64).max
