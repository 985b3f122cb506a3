import json

import numpy as np

from agd.autodiff import Network
from agd.denoiser import DenoiserNet
from agd.model import NETWORKS, ModelBundle
from agd.ordering import OrderingNet
from agd.training import TrainConfig, fit
from tests.test_training import tiny_model, triangle


def _manifest(path):
    with open(path, "rb") as fh:
        return json.loads(fh.readline())["manifest"]


def _trained_once():
    model = tiny_model(seed=2)
    fit([triangle()], [triangle()], model,
        TrainConfig(epochs=1, batch_size=1, val_batch_size=1, trajectories=1,
                    timesteps=1, seed=5))
    assert model.adam_denoiser.m and model.adam_ordering.m
    return model


def test_both_networks_share_the_network_base():
    assert issubclass(OrderingNet, Network) and issubclass(DenoiserNet, Network)
    assert [cls for cls, _ in NETWORKS.values()] == [OrderingNet, DenoiserNet]


def test_manifest_order_after_one_step(tmp_path):
    model = _trained_once()
    path = tmp_path / "a.ckpt"
    model.save(path)
    names = {label: list(getattr(model, label).params) for label in ("ordering", "denoiser")}
    expected = [["param", None, f"{label}.{k}"] for label in ("ordering", "denoiser")
                for k in names[label]]
    expected += [[kind, label, f"{label}.{k}"] for label in ("denoiser", "ordering")
                 for kind in ("m", "v") for k in names[label]]
    assert [entry[:3] for entry in _manifest(path)] == expected


def test_save_load_save_is_byte_identical(tmp_path):
    model = _trained_once()
    first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save(first)
    loaded = ModelBundle.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    for label in ("ordering", "denoiser"):
        net = getattr(loaded, label)
        assert all(p.name == name for name, p in net.params.items())
        state, original = getattr(loaded, f"adam_{label}"), getattr(model, f"adam_{label}")
        assert list(state.m) == list(state.v) == list(net.params)
        assert all(np.array_equal(state.m[k], original.m[k])
                   and np.array_equal(state.v[k], original.v[k]) for k in original.m)
