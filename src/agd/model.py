"""Bundling of the ordering network, the denoising network and optimizer
state into one checkpointable object.

A checkpoint names each array after its network: `ordering.<name>` and
`denoiser.<name>`, for parameters and Adam moments alike. Its manifest lists
the ordering's parameters, then the denoiser's, then the denoiser's Adam
moments, then the ordering's; `NETWORKS` is the one table both `save` and
`load` loop over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .denoiser import DenoiserConfig, DenoiserNet
from .optim import (AdamState, CheckpointError, check_shapes, load_checkpoint,
                    save_checkpoint)
from .ordering import OrderingConfig, OrderingNet

# the Adam learning-rate defaults of both `ModelBundle.init` and `TrainConfig`
LR_DENOISER = 1e-4
LR_ORDERING = 5e-4

# label -> (network class, config class); the label prefixes the network's
# names in a checkpoint and names its bundle fields, `<label>` and `adam_<label>`
NETWORKS = {"ordering": (OrderingNet, OrderingConfig),
            "denoiser": (DenoiserNet, DenoiserConfig)}


def _renamed(state: AdamState, rename) -> AdamState:
    """`state` with each moment's name mapped through `rename`."""
    return replace(state, m={rename(k): a for k, a in state.m.items()},
                   v={rename(k): a for k, a in state.v.items()})


@dataclass
class ModelBundle:
    ordering: OrderingNet
    denoiser: DenoiserNet
    adam_denoiser: AdamState
    adam_ordering: AdamState

    @classmethod
    def init(cls, ordering_config: OrderingConfig, denoiser_config: DenoiserConfig,
             rng: np.random.Generator, lr_denoiser: float = LR_DENOISER,
             lr_ordering: float = LR_ORDERING) -> "ModelBundle":
        return cls(
            ordering=OrderingNet.init(ordering_config, rng),
            denoiser=DenoiserNet.init(denoiser_config, rng),
            adam_denoiser=AdamState(lr=lr_denoiser),
            adam_ordering=AdamState(lr=lr_ordering),
        )

    def save(self, path) -> None:
        nets = {label: getattr(self, label) for label in NETWORKS}
        params = {f"{label}.{k}": p for label, net in nets.items()
                  for k, p in net.params.items()}
        # the denoiser's moments precede the ordering's in the manifest
        optimizers = {label: _renamed(getattr(self, f"adam_{label}"),
                                      lambda k, label=label: f"{label}.{k}")
                      for label in reversed(NETWORKS)}
        save_checkpoint(path, params, optimizers=optimizers,
                        config={label: net.config.to_dict() for label, net in nets.items()})

    @classmethod
    def load(cls, path) -> "ModelBundle":
        """Load a bundle; raises CheckpointError when the file is malformed or
        its parameters do not fit its stored config."""
        params, optimizers, config = load_checkpoint(path)
        try:
            configs = {label: config_cls(**config[label])
                       for label, (_, config_cls) in NETWORKS.items()}
            adam = {label: optimizers[label] for label in reversed(NETWORKS)}
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from None
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad model config: {exc}") from None
        check_shapes(params, {f"{label}.{name}": shape
                              for label, (net_cls, _) in NETWORKS.items()
                              for name, shape, _ in net_cls.param_specs(configs[label])},
                     path)
        # every name is now `<label>.<name>`: each network gets its own, unprefixed
        own = {label: {} for label in NETWORKS}
        for name, p in params.items():
            label, p.name = name.split(".", 1)
            own[label][p.name] = p
        fields = {}
        for label, (net_cls, _) in NETWORKS.items():
            # load_checkpoint matched each moment to a parameter, and m to v
            stray = [k for k in adam[label].m if not k.startswith(f"{label}.")]
            if stray:
                raise CheckpointError(f"{path}: optimizer {label!r} has a moment for "
                                      f"{stray[0]!r}, a parameter of another network")
            fields[label] = net_cls(configs[label], own[label])
            fields[f"adam_{label}"] = _renamed(adam[label], lambda k: k.split(".", 1)[1])
        return cls(**fields)
